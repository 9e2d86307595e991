module half (input a, input b, output s, output c);
    assign s = a ^ b;
    assign c = a & b;
endmodule

module top_module (input [1:0] x, output [1:0] y, output signed [3:0] z);
    wire s, c;
    half h0 (.a(x[0]), .b(x[1]), .s(s), .c(c));
    assign y = {c, s} >>> 1 | 4'bx1z0 <<< 2;
    assign z = -4'sd3 % 3 - (x[1:0] - 1) * 2 / 1;
    always @(x) casez (x)
        2'b1?: ;
        default: ;
    endcase
endmodule
