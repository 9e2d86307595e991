module half (input a, input b, output s, output c);
    assign s = a ^ b;
    assign c = a & b;
endmodule

module top_module (input [1:0] x, output [1:0] y);
    wire s, c;
    half h0 (.a(x[0]), .b(x[1]), .s(s), .c(c));
    assign y = {c, s} >>> 1 | 4'bx1z0 <<< 2;
    initial $display("unused");
endmodule
