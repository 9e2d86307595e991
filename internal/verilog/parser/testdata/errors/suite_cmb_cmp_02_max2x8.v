module top_module (
    input [7:0] a,
    input [7:0] b,
    output [7:0] max
);
    assign max = (a > b) ? a : b;
endmodule
