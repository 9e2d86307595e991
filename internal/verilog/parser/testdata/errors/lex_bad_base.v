module top_module (input [3:0] a, output [3:0] y);
    assign y = a ^ 4'q1;
endmodule
